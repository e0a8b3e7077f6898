"""Random multistatic geometries and bistatic range measurement synthesis.

A scenario holds transmitter (gNB) and receiver (UE) positions, one
target, and a nonnegative excess path length per target-to-node link
(zero on unobstructed links).  An excess on a link biases every
measurement traversing that link by the same amount, which is the
additive structure the pair-differencing solver exploits.

Both measurement flavors start from one set of true path lengths,
`true_bistatic_ranges`: a fast model-level synthesis adds a uniform
half-bin range-quantization error to them directly, and a full
physical-layer synthesis divides them by c (`bistatic_delay`) and runs
grids through the echo channel and the periodogram estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigurationError, ScenarioError, check_finite, check_integer
from .phy_channel import NoiseSpec, apply_channel
from .prs_grid import OfdmConfig, PrsAllocation, build_grid, comb_symbols
from .ranging import estimate_range, extract_and_divide, range_profile

MIN_NODE_SEPARATION = 1.0  # meters between target and any node
_MAX_TARGET_REDRAWS = 1000
_BASE_SEQUENCE_SEED = 1  # Gold-sequence seed of transmitter 0; transmitter s adds s


@dataclass(frozen=True)
class Scenario:
    """Node geometry, target position, and per-link excess path lengths."""

    gnb_positions: np.ndarray  # (S, 2)
    ue_positions: np.ndarray   # (K, 2)
    target: np.ndarray         # (2,)
    link_excess_gnb: np.ndarray  # (S,) meters, 0 on unobstructed links
    link_excess_ue: np.ndarray   # (K,) meters
    rng_seed: int = 0

    def __post_init__(self):
        for name, shape in (
            ("gnb_positions", (-1, 2)),
            ("ue_positions", (-1, 2)),
            ("target", (2,)),
            ("link_excess_gnb", (-1,)),
            ("link_excess_ue", (-1,)),
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            if len(shape) != arr.ndim or (shape[-1] != -1 and arr.shape[-1] != shape[-1]):
                raise ScenarioError(f"{name} has wrong shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.num_gnbs < 1 or self.num_ues < 1:
            raise ScenarioError("scenario needs at least one gNB and one UE")
        if self.link_excess_gnb.shape[0] != self.num_gnbs:
            raise ScenarioError("one gNB-side excess per gNB required")
        if self.link_excess_ue.shape[0] != self.num_ues:
            raise ScenarioError("one UE-side excess per UE required")
        if (self.link_excess_gnb < 0).any() or (self.link_excess_ue < 0).any():
            raise ScenarioError("link excesses must be >= 0")

    @property
    def num_gnbs(self) -> int:
        return self.gnb_positions.shape[0]

    @property
    def num_ues(self) -> int:
        return self.ue_positions.shape[0]


@dataclass(frozen=True)
class MeasurementSet:
    """Estimated bistatic ranges for every (transmitter, receiver) pair.

    `ranges[s, k]` is the measured transmitter-s -> target -> receiver-k
    path length.
    """

    ranges: np.ndarray

    def __post_init__(self):
        ranges = np.asarray(self.ranges, dtype=float)
        if ranges.ndim != 2:
            raise ScenarioError("ranges must be a (num_gnbs, num_ues) matrix")
        if not np.isfinite(ranges).all() or (ranges < 0).any():
            raise ScenarioError("ranges must be finite and >= 0")
        ranges.setflags(write=False)
        object.__setattr__(self, "ranges", ranges)


def check_geometry(num_gnbs, num_ues, gnb_region, ue_region, target_region, outlier_max,
                   min_nodes=1) -> None:
    """ConfigurationError unless `sample_scenario` can draw it, with min_nodes or more a side."""
    check_integer("num_gnbs", num_gnbs)
    check_integer("num_ues", num_ues)
    for name, value in (("gnb_region", gnb_region), ("ue_region", ue_region),
                        ("target_region", target_region), ("outlier_max", outlier_max)):
        check_finite(name, value)
    if num_gnbs < min_nodes or num_ues < min_nodes:
        raise ConfigurationError(f"num_gnbs and num_ues must be >= {min_nodes}")
    if min(gnb_region, ue_region, target_region) <= 0:
        raise ConfigurationError("region sizes must be positive")
    if outlier_max < 0:
        raise ConfigurationError("outlier_max must be >= 0")


def sample_scenario(
    num_gnbs: int,
    num_ues: int,
    *,
    gnb_region: float = 400.0,
    ue_region: float = 200.0,
    target_region: float = 150.0,
    outlier_max: float = 10.0,
    rng_seed: int = 0,
) -> Scenario:
    """Draw a random geometry with random blocked links.

    Nodes and target are uniform over co-centered squares of the given
    side lengths (gNBs, UEs, and target respectively).  The number of
    blocked links is uniform over 0..S+K; that many distinct links (from
    the S gNB-side plus K UE-side links) get an excess path length drawn
    uniformly from (0, outlier_max), all others get zero.  The target is
    redrawn if it lands within 1 m of a node.
    """
    check_geometry(num_gnbs, num_ues, gnb_region, ue_region, target_region, outlier_max)
    rng = np.random.default_rng(rng_seed)
    gnbs = rng.uniform(-gnb_region / 2, gnb_region / 2, size=(num_gnbs, 2))
    ues = rng.uniform(-ue_region / 2, ue_region / 2, size=(num_ues, 2))
    nodes = np.vstack([gnbs, ues])
    for _ in range(_MAX_TARGET_REDRAWS):
        target = rng.uniform(-target_region / 2, target_region / 2, size=2)
        if np.linalg.norm(nodes - target, axis=1).min() >= MIN_NODE_SEPARATION:
            break
    else:
        raise ScenarioError("could not place target away from all nodes")

    num_links = num_gnbs + num_ues
    excess = np.zeros(num_links)
    if outlier_max > 0:
        num_blocked = int(rng.integers(0, num_links + 1))
        if num_blocked:
            blocked = rng.choice(num_links, size=num_blocked, replace=False)
            excess[blocked] = rng.uniform(0.0, outlier_max, size=num_blocked)
    return Scenario(
        gnb_positions=gnbs,
        ue_positions=ues,
        target=target,
        link_excess_gnb=excess[:num_gnbs],
        link_excess_ue=excess[num_gnbs:],
        rng_seed=rng_seed,
    )


def true_bistatic_ranges(scenario: Scenario) -> MeasurementSet:
    """Noise-free path lengths: geometric ranges plus link excesses."""
    # The floats of np.linalg.norm(..., axis=1), without its Python wrapper.
    d_g, d_u = scenario.target - scenario.gnb_positions, scenario.target - scenario.ue_positions
    dist_g, dist_u = np.sqrt(np.add.reduce(d_g * d_g, 1)), np.sqrt(np.add.reduce(d_u * d_u, 1))
    geometric = dist_g[:, None] + dist_u[None, :]
    entries = geometric + scenario.link_excess_gnb[:, None] + scenario.link_excess_ue[None, :]
    return MeasurementSet(ranges=entries)


def bistatic_delay(scenario: Scenario) -> np.ndarray:
    """(S, K) delays of every transmitter -> target -> receiver path in seconds.

    The true path lengths of `true_bistatic_ranges` over c, so phy mode
    starts from the floats model mode perturbs.
    """
    return true_bistatic_ranges(scenario).ranges / SPEED_OF_LIGHT


def synthesize_measurements_model(
    scenario: Scenario,
    config: OfdmConfig,
    rng=None,
    *,
    quantization_error: bool = True,
) -> MeasurementSet:
    """Fast measurement synthesis at the range level.

    Adds an independent uniform error on (-bin/2, +bin/2) per pair to the
    true path lengths, mimicking the half-bin quantization of the
    periodogram estimator without running the physical layer.
    """
    ranges = true_bistatic_ranges(scenario).ranges
    if quantization_error:
        half = config.range_resolution / 2.0
        ranges = ranges + np.random.default_rng(rng).uniform(-half, half, size=ranges.shape)
    return MeasurementSet(ranges=ranges)


def synthesize_measurements_phy(
    scenario: Scenario,
    config: OfdmConfig,
    noise: NoiseSpec = NoiseSpec(),
) -> MeasurementSet:
    """Full physical-layer measurement synthesis.

    Builds one comb-offset grid per transmitter (offset = transmitter
    index, seed = _BASE_SEQUENCE_SEED + index), applies the echo channel
    for every pair, and ranges each receiver's comb block with the
    periodogram stages of `ranging`.  All true path lengths must stay
    below the unambiguous range of the configuration.
    """
    num_gnbs = scenario.num_gnbs
    if num_gnbs > config.comb_size:
        raise ScenarioError(
            f"{num_gnbs} transmitters exceed the {config.comb_size} distinct comb offsets"
        )
    delays = bistatic_delay(scenario)
    if (delays >= 1.0 / (config.subcarrier_spacing * config.comb_size)).any():
        raise ScenarioError(
            "bistatic ranges exceed the unambiguous window "
            f"({config.unambiguous_range:.1f} m); shrink the geometry"
        )

    grids = [
        build_grid(config, PrsAllocation(comb_offset=s, sequence_seed=_BASE_SEQUENCE_SEED + s))
        for s in range(num_gnbs)
    ]
    received = apply_channel(grids, delays, config, noise)
    transmit = comb_symbols(grids, config)
    # One receiver at a time keeps each (S, W, N) temporary small.
    profiles = [range_profile(extract_and_divide(block, transmit), config) for block in received]
    return MeasurementSet(ranges=estimate_range(np.stack(profiles, axis=1), config))
