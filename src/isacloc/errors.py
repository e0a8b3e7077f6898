"""Exception types raised by the simulation and solver layers, and the config value checks."""

import math
import numbers

import numpy as np


class ConfigurationError(ValueError):
    """Invalid numerology, allocation, or experiment configuration."""


class ScenarioError(ValueError):
    """Inconsistent scenario geometry or channel description."""


class NoDetectionError(RuntimeError):
    """Range profile contains no usable peak."""


class UnderdeterminedError(ValueError):
    """Too few measurements for the number of unknowns."""


class InsufficientGeometryError(ValueError):
    """Not enough transmitters or receivers for the requested operation."""


def check_integer(name: str, value) -> None:
    """Reject a config value that is not an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def check_finite(name: str, value) -> None:
    """Reject a config value that is not a finite real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def store_python_numbers(config) -> None:
    """Store each numpy scalar field of a frozen config as the equal Python number."""
    for name, value in list(vars(config).items()):
        if isinstance(value, np.number):
            object.__setattr__(config, name, value.item())
