"""Random multistatic geometries and bistatic range measurement synthesis.

A scenario holds transmitter (gNB) and receiver (UE) positions, one
target, and a nonnegative excess path length per target-to-node link
(zero on unobstructed links).  An excess on a link biases every
measurement traversing that link by the same amount, which is the
additive structure the pair-differencing solver exploits.

Measurements come in two flavors: a fast model-level synthesis that adds
a uniform half-bin range-quantization error directly to the geometric
ranges, and a full physical-layer synthesis that runs grids through the
echo channel and the periodogram estimator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ScenarioError
from .phy_channel import ChannelPath, NoiseSpec, apply_channel, bistatic_delay
from .prs_grid import OfdmConfig, PrsAllocation, build_grid
# The per-pair names are unused here but stay importable: perfbench's
# tracer wraps them in this module, and a layer that does not run reads 0.
from .ranging import estimate_range, estimate_ranges, extract_and_divide, range_profile  # noqa: F401

MIN_NODE_SEPARATION = 1.0  # meters between target and any node
_MAX_TARGET_REDRAWS = 1000


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
    path length.  `true_ranges` holds the unobstructed geometric path
    lengths when known, so `ranges - true_ranges` is the total measurement
    perturbation (link excesses plus estimation error).
    """

    ranges: np.ndarray
    true_ranges: np.ndarray | None = None

    def __post_init__(self):
        ranges = np.asarray(self.ranges, dtype=float)
        if ranges.ndim != 2:
            raise ScenarioError("ranges must be a (num_gnbs, num_ues) matrix")
        if not np.isfinite(ranges).all() or (ranges < 0).any():
            raise ScenarioError("ranges must be finite and >= 0")
        ranges.setflags(write=False)
        object.__setattr__(self, "ranges", ranges)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


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
    if num_gnbs < 1 or num_ues < 1:
        raise ConfigurationError("num_gnbs and num_ues must be >= 1")
    if min(gnb_region, ue_region, target_region) <= 0:
        raise ConfigurationError("region sizes must be positive")
    if outlier_max < 0:
        raise ConfigurationError("outlier_max must be >= 0")

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
    dist_g = np.linalg.norm(scenario.target - scenario.gnb_positions, axis=1)
    dist_u = np.linalg.norm(scenario.target - scenario.ue_positions, axis=1)
    geometric = dist_g[:, None] + dist_u[None, :]
    entries = geometric + scenario.link_excess_gnb[:, None] + scenario.link_excess_ue[None, :]
    return MeasurementSet(ranges=entries, true_ranges=geometric)


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
    base = true_bistatic_ranges(scenario)
    ranges = base.ranges
    if quantization_error:
        gen = _as_generator(rng)
        half = config.range_resolution / 2.0
        ranges = ranges + gen.uniform(-half, half, size=ranges.shape)
    return MeasurementSet(ranges=ranges, true_ranges=base.true_ranges)


def synthesize_measurements_phy(
    scenario: Scenario,
    config: OfdmConfig,
    noise: NoiseSpec = NoiseSpec(),
    *,
    base_sequence_seed: int = 1,
) -> MeasurementSet:
    """Full physical-layer measurement synthesis.

    Builds one comb-offset grid per transmitter (offset = transmitter
    index, seed = base_sequence_seed + index), applies the echo channel
    for every pair, and estimates all bistatic ranges with the comb-domain
    periodogram.  All true path lengths must stay below the unambiguous
    range of the configuration.
    """
    num_gnbs, num_ues = scenario.num_gnbs, scenario.num_ues
    if num_gnbs > config.comb_size:
        raise ScenarioError(
            f"{num_gnbs} transmitters exceed the {config.comb_size} distinct comb offsets"
        )
    base = true_bistatic_ranges(scenario)
    if (base.ranges >= config.unambiguous_range).any():
        raise ScenarioError(
            "bistatic ranges exceed the unambiguous window "
            f"({config.unambiguous_range:.1f} m); shrink the geometry"
        )

    grids = [
        build_grid(config, PrsAllocation(s, comb_offset=s, sequence_seed=base_sequence_seed + s))
        for s in range(num_gnbs)
    ]
    paths = [
        ChannelPath(s, k, delay=bistatic_delay(scenario, s, k))
        for s in range(num_gnbs)
        for k in range(num_ues)
    ]
    received = apply_channel(grids, paths, config, noise)
    return MeasurementSet(ranges=estimate_ranges(received, grids, config),
                          true_ranges=base.true_ranges)


def scenario_to_json(scenario: Scenario, path) -> None:
    """Write a scenario to a JSON file for replay."""
    payload = {
        "gnb_positions": scenario.gnb_positions.tolist(),
        "ue_positions": scenario.ue_positions.tolist(),
        "target": scenario.target.tolist(),
        "link_excess_gnb": scenario.link_excess_gnb.tolist(),
        "link_excess_ue": scenario.link_excess_ue.tolist(),
        "rng_seed": scenario.rng_seed,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def scenario_from_json(path) -> Scenario:
    with open(path) as fh:
        payload = json.load(fh)
    return Scenario(
        gnb_positions=np.asarray(payload["gnb_positions"], dtype=float),
        ue_positions=np.asarray(payload["ue_positions"], dtype=float),
        target=np.asarray(payload["target"], dtype=float),
        link_excess_gnb=np.asarray(payload["link_excess_gnb"], dtype=float),
        link_excess_ue=np.asarray(payload["link_excess_ue"], dtype=float),
        rng_seed=int(payload["rng_seed"]),
    )
